"""Tests for repro.gan.cgan (Algorithm 2)."""

import copy
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.flows.dataset import FlowPairDataset
from repro.gan.cgan import ConditionalGAN
from repro.nn.layers import Dense


def small_cgan(**kwargs):
    defaults = dict(noise_dim=4, seed=0)
    defaults.update(kwargs)
    return ConditionalGAN(4, 2, **defaults)


class TestConstruction:
    def test_dims(self):
        cgan = small_cgan()
        assert cgan.generator.input_dim == 4 + 2
        assert cgan.generator.output_dim == 4
        assert cgan.discriminator.input_dim == 4 + 2
        assert cgan.discriminator.output_dim == 1

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            ConditionalGAN(0, 2)
        with pytest.raises(ConfigurationError):
            ConditionalGAN(4, 0)

    def test_rejects_wrong_generator_output(self):
        with pytest.raises(ConfigurationError, match="generator outputs"):
            ConditionalGAN(4, 2, generator_layers=[Dense(3, "sigmoid")])

    def test_rejects_wrong_discriminator_output(self):
        with pytest.raises(ConfigurationError, match="discriminator"):
            ConditionalGAN(
                4, 2, discriminator_layers=[Dense(2, "sigmoid")]
            )

    def test_rejects_unknown_loss(self):
        with pytest.raises(ConfigurationError):
            small_cgan(generator_loss="wasserstein")

    @pytest.mark.parametrize("arg", ["feature_dim", "condition_dim", "noise_dim"])
    @pytest.mark.parametrize("value", [3.7, True])
    def test_rejects_non_int_dims(self, arg, value):
        # noise_dim=3.7 used to train with a 3-wide Z.
        kwargs = {"feature_dim": 4, "condition_dim": 2, "noise_dim": 4, arg: value}
        with pytest.raises(ConfigurationError, match=f"^{arg} must be an int >= 1"):
            ConditionalGAN(**kwargs)


class TestGenerate:
    def test_shapes(self):
        cgan = small_cgan()
        out = cgan.generate(np.array([[1.0, 0.0], [0.0, 1.0]]), seed=0)
        assert out.shape == (2, 4)

    def test_generate_for_condition(self):
        cgan = small_cgan()
        out = cgan.generate_for_condition([1.0, 0.0], 7, seed=0)
        assert out.shape == (7, 4)

    def test_sigmoid_output_range(self):
        cgan = small_cgan()
        out = cgan.generate_for_condition([1.0, 0.0], 32, seed=0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_rejects_wrong_condition_width(self):
        with pytest.raises(ConfigurationError):
            small_cgan().generate(np.ones((2, 3)))

    def test_deterministic_with_seed(self):
        cgan = small_cgan()
        a = cgan.generate_for_condition([1.0, 0.0], 5, seed=3)
        b = cgan.generate_for_condition([1.0, 0.0], 5, seed=3)
        np.testing.assert_array_equal(a, b)


class TestTraining:
    def test_learns_conditional_means(self, toy_dataset):
        cgan = ConditionalGAN(4, 2, noise_dim=4, seed=1)
        cgan.train(toy_dataset, iterations=800, batch_size=32)
        low = cgan.generate_for_condition([1.0, 0.0], 200, seed=0).mean()
        high = cgan.generate_for_condition([0.0, 1.0], 200, seed=0).mean()
        # Conditions map to well-separated clusters at 0.2 and 0.8.
        assert low < 0.45
        assert high > 0.55
        assert high - low > 0.25

    def test_history_recorded(self, toy_dataset):
        cgan = small_cgan()
        hist = cgan.train(toy_dataset, iterations=50)
        assert len(hist) == 50
        assert np.all(np.isfinite(hist.d_loss))
        assert np.all(np.isfinite(hist.g_loss))

    def test_training_accumulates(self, toy_dataset):
        cgan = small_cgan()
        cgan.train(toy_dataset, iterations=10)
        cgan.train(toy_dataset, iterations=10)
        assert cgan.trained_iterations == 20
        assert len(cgan.history) == 20

    def test_snapshots(self, toy_dataset):
        cgan = small_cgan()
        cgan.train(toy_dataset, iterations=30, snapshot_every=10)
        assert [it for it, _g in cgan.snapshots] == [10, 20, 30]
        # Snapshots are independent copies.
        _, g10 = cgan.snapshots[0]
        assert g10 is not cgan.generator

    def test_data_fraction_schedule(self, toy_dataset):
        cgan = small_cgan()
        hist = cgan.train(
            toy_dataset,
            iterations=20,
            data_fraction=lambda it: min(1.0, (it + 1) / 20),
        )
        assert hist.n_train[0] < hist.n_train[-1]
        assert hist.n_train[-1] == len(toy_dataset)

    def test_bad_data_fraction_raises(self, toy_dataset):
        cgan = small_cgan()
        with pytest.raises(ConfigurationError):
            cgan.train(toy_dataset, iterations=5, data_fraction=lambda it: 0.0)

    def test_k_disc_steps(self, toy_dataset):
        cgan = small_cgan()
        cgan.train(toy_dataset, iterations=10, k_disc=3)
        assert cgan.trained_iterations == 10

    def test_minimax_loss_variant_trains(self, toy_dataset):
        cgan = small_cgan(generator_loss="minimax")
        hist = cgan.train(toy_dataset, iterations=100)
        assert np.all(np.isfinite(hist.g_objective))

    def test_label_smoothing(self, toy_dataset):
        cgan = small_cgan()
        cgan.train(toy_dataset, iterations=20, label_smoothing=0.1)
        assert cgan.is_trained

    def test_rejects_dim_mismatch(self):
        cgan = small_cgan()
        wrong = FlowPairDataset(np.ones((10, 5)), np.ones((10, 2)))
        with pytest.raises(ConfigurationError, match="feature_dim"):
            cgan.train(wrong, iterations=5)

    def test_rejects_bad_hyperparams(self, toy_dataset):
        cgan = small_cgan()
        with pytest.raises(ConfigurationError):
            cgan.train(toy_dataset, iterations=0)
        with pytest.raises(ConfigurationError):
            cgan.train(toy_dataset, iterations=5, k_disc=0)
        with pytest.raises(ConfigurationError):
            cgan.train(toy_dataset, iterations=5, label_smoothing=0.7)

    @pytest.mark.parametrize(
        "arg, value",
        [(arg, v) for arg in ("iterations", "batch_size", "k_disc") for v in (True, 2.5, 0)]
        # 0 turns checkpoints off, so its out-of-range case is -1.
        + [("checkpoint_every", v) for v in (True, 2.5, -1)],
    )
    def test_integer_arguments_checked(self, toy_dataset, arg, value):
        minimum = 0 if arg == "checkpoint_every" else 1
        cgan = small_cgan()
        kwargs = {"iterations": 12, arg: value}
        with pytest.raises(ConfigurationError, match=f"^{arg} must be an int >= {minimum}"):
            cgan.train(toy_dataset, on_checkpoint=lambda state: None, **kwargs)
        assert not cgan.is_trained


class TestStateChecks:
    def test_require_trained(self):
        with pytest.raises(NotFittedError):
            small_cgan().require_trained()

    def test_discriminator_score_shapes(self, toy_dataset):
        cgan = small_cgan()
        cgan.train(toy_dataset, iterations=10)
        scores = cgan.discriminator_score(
            toy_dataset.features[:5], toy_dataset.conditions[:5]
        )
        assert scores.shape == (5,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_discriminator_score_broadcast_condition(self, toy_dataset):
        cgan = small_cgan()
        cgan.train(toy_dataset, iterations=10)
        scores = cgan.discriminator_score(
            toy_dataset.features[:5], np.array([1.0, 0.0])
        )
        assert scores.shape == (5,)

    def test_reproducible_training(self, toy_dataset):
        a = ConditionalGAN(4, 2, noise_dim=4, seed=11)
        b = ConditionalGAN(4, 2, noise_dim=4, seed=11)
        ha = a.train(toy_dataset, iterations=25)
        hb = b.train(toy_dataset, iterations=25)
        np.testing.assert_allclose(ha.d_loss, hb.d_loss)
        np.testing.assert_allclose(
            a.generate_for_condition([1, 0], 4, seed=0),
            b.generate_for_condition([1, 0], 4, seed=0),
        )


class TestFlatBuffers:
    def test_copies_train_through_their_own_buffers(self, toy_dataset):
        # numpy pickles and deep-copies views as arrays of their own; a
        # copy whose W no longer views its flat buffer would train the
        # buffer and leave the weights behind.
        original = small_cgan(seed=3)
        original.train(toy_dataset, iterations=5)
        copies = [
            original,
            pickle.loads(pickle.dumps(original)),
            copy.deepcopy(original),
        ]
        for cgan in copies:
            cgan.train(toy_dataset, iterations=20)
        for net_name in ("generator", "discriminator"):
            want = getattr(original, net_name).get_weights()
            for cgan in copies:
                net = getattr(cgan, net_name)
                got = net.get_weights()
                for key in want:
                    np.testing.assert_array_equal(got[key], want[key])
                for layer in net.layers:
                    for arr in (layer.W, layer.b):
                        assert np.shares_memory(arr, net.flat_params)
                    for arr in (layer.dW, layer.db):
                        assert np.shares_memory(arr, net.flat_grads)
