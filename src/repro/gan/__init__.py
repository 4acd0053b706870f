"""Conditional GAN core (Algorithm 2) plus baselines."""

from repro.gan.noise import GaussianNoise, NoisePrior, UniformNoise, get_noise_prior
from repro.gan.history import TrainingHistory
from repro.gan.cgan import ConditionalGAN, default_discriminator, default_generator
from repro.gan.gan import GAN
from repro.gan.serialization import load_cgan, save_cgan
from repro.gan.wgan import WassersteinConditionalGAN, default_critic

__all__ = [
    "ConditionalGAN",
    "GAN",
    "GaussianNoise",
    "NoisePrior",
    "TrainingHistory",
    "UniformNoise",
    "WassersteinConditionalGAN",
    "default_critic",
    "default_discriminator",
    "default_generator",
    "get_noise_prior",
    "load_cgan",
    "save_cgan",
]
