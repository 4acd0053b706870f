"""Conditional GAN core (Algorithm 2) plus the unconditional baseline.

Both networks are ``Dense`` stacks trained by ``Adam``, and the noise
prior ``Pr(Z)`` is a standard normal (:class:`GaussianNoise`).
"""

from repro.gan.noise import GaussianNoise
from repro.gan.history import TrainingHistory
from repro.gan.cgan import ConditionalGAN, default_discriminator, default_generator
from repro.gan.gan import GAN
from repro.gan.serialization import load_cgan, save_cgan

__all__ = [
    "ConditionalGAN",
    "GAN",
    "GaussianNoise",
    "TrainingHistory",
    "default_discriminator",
    "default_generator",
    "load_cgan",
    "save_cgan",
]
