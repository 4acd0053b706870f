"""Tests for repro.gan.wgan (Wasserstein CGAN variant)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gan.wgan import WassersteinConditionalGAN, default_critic
from repro.nn.layers import Dense
from repro.security.confidentiality import SideChannelAttacker


def small_wgan(**kwargs):
    defaults = dict(noise_dim=4, seed=0)
    defaults.update(kwargs)
    return WassersteinConditionalGAN(4, 2, **defaults)


class TestConstruction:
    def test_linear_critic_head(self):
        layers = default_critic()
        assert isinstance(layers[-1], Dense)
        assert layers[-1].activation is None

    def test_rejects_bad_clip(self):
        with pytest.raises(ConfigurationError):
            small_wgan(clip=0.0)

    def test_generator_loss_kwarg_ignored(self):
        # WGAN fixes its own objectives; the kwarg must not break it.
        wgan = WassersteinConditionalGAN(
            4, 2, noise_dim=4, seed=0, generator_loss="minimax"
        )
        assert wgan.clip == 0.05


class TestTraining:
    def test_learns_conditional_means(self, toy_dataset):
        wgan = small_wgan(seed=1)
        wgan.train(toy_dataset, iterations=1200, k_disc=5, batch_size=32)
        low = wgan.generate_for_condition([1.0, 0.0], 200, seed=0).mean()
        high = wgan.generate_for_condition([0.0, 1.0], 200, seed=0).mean()
        assert low < 0.45
        assert high > 0.55

    def test_weights_stay_clipped(self, toy_dataset):
        wgan = small_wgan(clip=0.03)
        wgan.train(toy_dataset, iterations=50, k_disc=2)
        for layer in wgan.discriminator.layers:
            for param in layer.parameters().values():
                assert np.all(np.abs(param) <= 0.03 + 1e-12)

    def test_history_finite(self, toy_dataset):
        wgan = small_wgan()
        hist = wgan.train(toy_dataset, iterations=40)
        assert np.all(np.isfinite(hist.d_loss))
        assert np.all(np.isfinite(hist.g_loss))

    def test_critic_scores_unbounded(self, toy_dataset):
        # Linear head: scores are not squashed into [0, 1].
        wgan = small_wgan()
        wgan.train(toy_dataset, iterations=30)
        scores = wgan.discriminator_score(
            toy_dataset.features[:8], toy_dataset.conditions[:8]
        )
        assert scores.shape == (8,)

    def test_reproducible(self, toy_dataset):
        a = small_wgan(seed=5)
        b = small_wgan(seed=5)
        ha = a.train(toy_dataset, iterations=30)
        hb = b.train(toy_dataset, iterations=30)
        np.testing.assert_allclose(ha.d_loss, hb.d_loss)


class TestDownstreamCompatibility:
    def test_works_with_side_channel_attacker(self, toy_dataset):
        wgan = small_wgan(seed=2)
        wgan.train(toy_dataset, iterations=1200, k_disc=5)
        attacker = SideChannelAttacker(
            wgan, toy_dataset.unique_conditions(), h=0.1, root_entropy=0
        ).fit()
        report = attacker.evaluate(toy_dataset)
        assert report.accuracy > 0.8
